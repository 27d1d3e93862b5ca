(** pmemkv-bench driver (paper §VI-B, Fig. 5): the four db_bench workload
    mixes over an engine's synchronous calls (each a one-op batch through
    {!Engine.run_batch}), 16-byte keys and 1024-byte values.

    "Threads" are logical shards — each shard's operation stream is run
    and timed on its own; see DESIGN.md for why this preserves Fig. 5's
    comparisons on the single-core simulator. *)

type workload =
  | Update_heavy   (** 50% reads / 50% writes *)
  | Read_heavy     (** 95% reads / 5% writes *)
  | Random_reads
  | Seq_reads

val workload_name : workload -> string
val all_workloads : workload list

val key_of_int : int -> string
(** 16-byte key, as in the paper's configuration. *)

val value_block : string
(** The 1024-byte value payload. *)

val preload : Engine.packed -> keys:int -> unit

type result = {
  threads : int;
  total_ops : int;
  elapsed : float;        (** max over shards *)
  median_shard : float;   (** robust per-shard cost estimator *)
  throughput : float;     (** ops/s *)
}

val run :
  Engine.packed -> threads:int -> ops_per_thread:int -> universe:int ->
  workload -> result
