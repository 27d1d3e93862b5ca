(* Workload adapters for the torture harness.

   Each adapter builds a fresh pool per replay, does its setup untracked
   (setup stores are not crash points), then exposes the tortured phase
   plus an oracle that re-attaches to the recovered pool through the
   durable handles it parked in the root object. *)

open Spp_pmdk

let kv_key i = Printf.sprintf "key-%03d" i
let kv_value i = Printf.sprintf "value-%05d" i

(* pmemlog records are fixed 16 bytes so the committed watermark encodes
   the record count: 7-digit index + 9-byte filler. *)
let log_record i = Printf.sprintf "%07d-record!!" i

let check_all checks =
  List.fold_left
    (fun acc (ok, msg) ->
      match acc with
      | Error _ -> acc
      | Ok () -> if ok then Ok () else Error msg)
    (Ok ()) checks

(* pmemkv cmap: synchronous puts (each a one-op group commit) into a
   persistent hashmap. The bucket array's oid is parked in the root
   object; the oracle re-attaches and requires every acked key readable
   and every later key absent or fully written (the in-flight put either
   committed or did not). *)
let kvstore ?(variant = Spp_access.Spp) ?(ops = 24) () =
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 17) ~name:"torture-kv" variant
    in
    let pool = a.Spp_access.pool in
    let map = Spp_pmemkv.Engine.create ~nbuckets:16 Spp_pmemkv.Engines.cmap a in
    let root = a.Spp_access.root a.Spp_access.oid_size in
    Pool.store_oid pool ~off:root.Oid.off (Spp_pmemkv.Engine.root_oid map);
    Pool.persist pool ~off:root.Oid.off ~len:a.Spp_access.oid_size;
    Spp_pmemkv.Engine.put map ~key:"baseline" ~value:"present";
    let mutate ~ack =
      for i = 1 to ops do
        Spp_pmemkv.Engine.put map ~key:(kv_key i) ~value:(kv_value i);
        ack ()
      done
    in
    let check ~pool:pool' ~acked =
      let a' = Spp_access.attach (Pool.space pool') pool' in
      let root' = Pool.root_oid pool' in
      let root = Pool.load_oid pool' ~off:root'.Oid.off in
      let map' = Spp_pmemkv.Engine.attach Spp_pmemkv.Engines.cmap a' ~root in
      let checks = ref [] in
      let add ok msg = checks := (ok, msg) :: !checks in
      add
        (Spp_pmemkv.Engine.get map' "baseline" = Some "present")
        "baseline key lost";
      for i = 1 to acked do
        add
          (Spp_pmemkv.Engine.get map' (kv_key i) = Some (kv_value i))
          (Printf.sprintf "acked put %d not durable" i)
      done;
      for i = acked + 1 to ops do
        match Spp_pmemkv.Engine.get map' (kv_key i) with
        | None -> ()
        | Some v ->
          add (v = kv_value i)
            (Printf.sprintf "unacked put %d visible but torn" i)
      done;
      check_all (List.rev !checks)
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = "kvstore"; w_make }

(* pmemlog: fixed-size appends. The descriptor and data oids are parked
   in the root object side by side; the oracle requires the committed
   watermark to sit on a record boundary at or past the acked count, with
   every committed record byte-exact. *)
let pmemlog ?(variant = Spp_access.Spp) ?(ops = 24) () =
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 17) ~name:"torture-log" variant
    in
    let pool = a.Spp_access.pool in
    let log = Spp_pmemlog.create a ~capacity:((ops * 16) + 64) in
    let osz = a.Spp_access.oid_size in
    let root = a.Spp_access.root (2 * osz) in
    Pool.store_oid pool ~off:root.Oid.off (Spp_pmemlog.descriptor log);
    Pool.store_oid pool ~off:(root.Oid.off + osz) (Spp_pmemlog.data_oid log);
    Pool.persist pool ~off:root.Oid.off ~len:(2 * osz);
    let mutate ~ack =
      for i = 1 to ops do
        Spp_pmemlog.append log (log_record i);
        ack ()
      done
    in
    let check ~pool:pool' ~acked =
      let a' = Spp_access.attach (Pool.space pool') pool' in
      let osz' = Pool.oid_stored_size pool' in
      let root' = Pool.root_oid pool' in
      let desc = Pool.load_oid pool' ~off:root'.Oid.off in
      let data = Pool.load_oid pool' ~off:(root'.Oid.off + osz') in
      let log' = Spp_pmemlog.attach a' ~desc ~data in
      let n = Spp_pmemlog.committed log' in
      if n mod 16 <> 0 then
        Error (Printf.sprintf "watermark %d not on a record boundary" n)
      else begin
        let k = n / 16 in
        if k < acked then
          Error (Printf.sprintf "%d records committed < %d acked" k acked)
        else if k > ops then
          Error (Printf.sprintf "%d records committed > %d appended" k ops)
        else begin
          let contents = Spp_pmemlog.read_all log' in
          let bad = ref None in
          for i = 1 to k do
            if !bad = None && String.sub contents ((i - 1) * 16) 16
                              <> log_record i
            then bad := Some i
          done;
          match !bad with
          | None -> Ok ()
          | Some i -> Error (Printf.sprintf "committed record %d torn" i)
        end
      end
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = "pmemlog"; w_make }

(* Transactional counter on the transactional allocator: each op's
   transaction sets two root words to the count, allocates a cell
   holding it, repoints the root's oid slot at the cell and frees the
   previous cell. The oracle requires the halves equal (atomicity) and
   within [acked, ops] (no lost acked update, no invented one), the
   slot's cell holding the count, and exactly one live cell. *)
let counter ?(variant = Spp_access.Spp) ?(ops = 24) () =
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 16) ~name:"torture-ctr" variant
    in
    let pool = a.Spp_access.pool in
    let osz = a.Spp_access.oid_size in
    let root = a.Spp_access.root (16 + osz) in
    let slot = root.Oid.off + 16 in
    let base_blocks = (Pool.heap_stats pool).Heap.allocated_blocks in
    let mutate ~ack =
      for i = 1 to ops do
        Pool.with_tx pool (fun () ->
          Pool.tx_add_range pool ~off:root.Oid.off ~len:(16 + osz);
          Pool.store_word pool ~off:root.Oid.off i;
          Pool.store_word pool ~off:(root.Oid.off + 8) i;
          let cell = Pool.tx_alloc pool ~size:8 in
          Pool.store_word pool ~off:cell.Oid.off i;
          let prev = Pool.load_oid pool ~off:slot in
          Pool.store_oid pool ~off:slot cell;
          if not (Oid.is_null prev) then Pool.tx_free pool prev);
        ack ()
      done
    in
    let check ~pool:pool' ~acked =
      let root' = Pool.root_oid pool' in
      let c1 = Pool.load_word pool' ~off:root'.Oid.off in
      let c2 = Pool.load_word pool' ~off:(root'.Oid.off + 8) in
      let cell = Pool.load_oid pool' ~off:(root'.Oid.off + 16) in
      let cells =
        (Pool.heap_stats pool').Heap.allocated_blocks - base_blocks
      in
      if c1 <> c2 then
        Error (Printf.sprintf "counter halves diverged: %d vs %d" c1 c2)
      else if c1 < acked then
        Error (Printf.sprintf "counter %d < %d acked" c1 acked)
      else if c1 > ops then
        Error (Printf.sprintf "counter %d > %d ops" c1 ops)
      else if c1 > 0 && Oid.is_null cell then
        Error (Printf.sprintf "counter %d without a cell" c1)
      else if c1 > 0 && Pool.load_word pool' ~off:cell.Oid.off <> c1 then
        Error
          (Printf.sprintf "cell holds %d, counter %d"
             (Pool.load_word pool' ~off:cell.Oid.off) c1)
      else if cells <> min c1 1 then
        Error (Printf.sprintf "%d live cells at counter %d" cells c1)
      else Ok ()
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = "counter"; w_make }

(* Group-committed multi-put (cmap's [Engine.run_batch]): [ops] puts
   executed as two batches of roughly half each, acking a batch's ops
   only after its run_batch call returns — the serve pipeline's promise
   semantics. The final op of the second batch *updates* a key written
   by the first op, so the oracle also proves no reordering across ops:
   the update is durable only in the all-ops-committed state.

   Oracle: the durable keys must form a *prefix* of the batch program —
   some k with keys 1..k present and byte-exact, keys k+1..ops-1 absent,
   and key 1 carrying its updated value exactly when k = ops. A torn op,
   a hole, or an out-of-order commit all break the prefix shape.

   The tortured phase runs with a DRAM read cache attached, so crash
   points interleave with its stage-time invalidations and post-commit
   fills — which must add zero durability events. The oracle then also
   proves the cache cannot leak across a crash: the reattached map
   starts cold, and with a fresh cache attached every key is read twice
   (cold fill, then warm hit) with both reads byte-equal — so no value
   that was only staged in an uncommitted batch can ever be served,
   from PM or from cache. *)
let kvbatch ?(variant = Spp_access.Spp) ?(ops = 12) () =
  let ops = max 3 ops in
  let updated_value = "value-redux" in
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 17) ~name:"torture-kvbatch" variant
    in
    let pool = a.Spp_access.pool in
    let map = Spp_pmemkv.Engine.create ~nbuckets:16 Spp_pmemkv.Engines.cmap a in
    Spp_pmemkv.Engine.set_cache map (Some (Spp_pmemkv.Rcache.create ~cap:64));
    let root = a.Spp_access.root a.Spp_access.oid_size in
    Pool.store_oid pool ~off:root.Oid.off (Spp_pmemkv.Engine.root_oid map);
    Pool.persist pool ~off:root.Oid.off ~len:a.Spp_access.oid_size;
    let op_of i =
      (* ops 1..ops-1 put fresh keys; op [ops] updates key 1 *)
      if i < ops then
        Spp_pmemkv.Engine.B_put { key = kv_key i; value = kv_value i }
      else Spp_pmemkv.Engine.B_put { key = kv_key 1; value = updated_value }
    in
    let mutate ~ack =
      let half = ops / 2 in
      let batch lo hi =
        ignore
          (Spp_pmemkv.Engine.run_batch map
             (Array.init (hi - lo + 1) (fun j -> op_of (lo + j))));
        for _ = lo to hi do ack () done
      in
      batch 1 half;
      batch (half + 1) ops
    in
    let check ~pool:pool' ~acked =
      let a' = Spp_access.attach (Pool.space pool') pool' in
      let root' = Pool.root_oid pool' in
      let root = Pool.load_oid pool' ~off:root'.Oid.off in
      let map' = Spp_pmemkv.Engine.attach Spp_pmemkv.Engines.cmap a' ~root in
      let err = ref None in
      let fail msg = if !err = None then err := Some msg in
      (* The cache is volatile: reopen must start cold, with no channel
         by which the pre-crash cache could survive the power cycle. *)
      if Spp_pmemkv.Engine.cache map' <> None then
        fail "reattached map did not start with a cold cache";
      (* Run the oracle itself through a fresh cache: the first read of
         each key fills from the recovered durable state, the second
         must hit warm and agree byte-for-byte — any divergence means
         the cache served something the durable image does not hold
         (e.g. a value only staged in the interrupted batch). *)
      Spp_pmemkv.Engine.set_cache map'
        (Some (Spp_pmemkv.Rcache.create ~cap:64));
      let get2 key =
        let cold = Spp_pmemkv.Engine.get map' key in
        let warm = Spp_pmemkv.Engine.get map' key in
        if cold <> warm then
          fail
            (Printf.sprintf "cache diverged from durable state on %S" key);
        cold
      in
      let v1 = get2 (kv_key 1) in
      (* committed prefix length over ops 2..ops-1 (distinct keys) *)
      let k = ref (if v1 = None then 0 else 1) in
      for i = 2 to ops - 1 do
        match get2 (kv_key i) with
        | Some v ->
          if v <> kv_value i then
            fail (Printf.sprintf "op %d torn: %S" i v)
          else if !k <> i - 1 then
            fail (Printf.sprintf "op %d durable before op %d (hole)" i !k)
          else incr k
        | None -> ()
      done;
      (* disambiguate the final update through key 1's value *)
      (match v1 with
       | None -> if !k > 0 then fail "op 1 missing below a durable prefix"
       | Some v ->
         if v = updated_value then begin
           if !k <> ops - 1 then
             fail
               (Printf.sprintf
                  "final update durable but prefix stops at op %d" !k)
           else k := ops
         end
         else if v <> kv_value 1 then
           fail (Printf.sprintf "op 1 torn: %S" v));
      if !err = None && !k < acked then
        fail (Printf.sprintf "prefix %d < %d acked" !k acked);
      (* Explicit staged-visibility pass: every op beyond the committed
         prefix was at most *staged* in the interrupted batch, and its
         key must answer None on both the cold and warm read. *)
      if !err = None then
        for i = max 2 (!k + 1) to ops - 1 do
          match get2 (kv_key i) with
          | None -> ()
          | Some v ->
            fail
              (Printf.sprintf
                 "uncommitted op %d visible after crash: %S" i v)
        done;
      match !err with None -> Ok () | Some msg -> Error msg
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = "kvbatch"; w_make }

(* Failover: the kvbatch program (group-committed puts, final op updates
   op 1's key) replicated through an inline [Replica] group while the
   primary is tortured. At every crash point the oracle promotes the
   replica and compares it against cold recovery of the primary's image
   — the promotion-equivalence differential:

     - both serve a valid whole-op prefix of the program (byte-exact
       values, no hole, no reordering);
     - the replica's prefix k_r never exceeds the primary's k_p
       (payloads ship strictly after commit durability, so a replica
       can lag but never lead — the two-generals side the protocol
       actually guarantees);
     - on a lossless channel the lag is bounded by one commit: the only
       shippable-but-unshipped window is between a commit's durability
       fence and its observer call, which at most one commit occupies;
     - with the channel lossless and the policy sync, every acked op is
       on the replica (acked <= k_r): inline replication applies before
       [run_batch] returns, and acks happen after.

   The drop variant runs the same program over a lossy channel with a
   small retry budget: once a send exhausts its retries the replica is
   dead and stops receiving, so the lag bound and the acked clause no
   longer hold — but the prefix shape and k_r <= k_p must survive
   arbitrary loss. *)
let kvfailover ?(variant = Spp_access.Spp) ?(ops = 12) ?(drop_rate = 0.)
    ?(send_retries = 4) ?(engine = Spp_pmemkv.Engines.cmap)
    ?(name = "kvfailover") () =
  let ops = max 3 ops in
  let half = ops / 2 in
  let updated_value = "value-redux" in
  (* valid whole-op prefix length of the program, or the shape violation;
     [get] abstracts over which side (recovered primary / promoted
     replica) and which engine is being scanned *)
  let scan_prefix get =
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    let v1 = get (kv_key 1) in
    let k = ref (if v1 = None then 0 else 1) in
    for i = 2 to ops - 1 do
      match get (kv_key i) with
      | Some v ->
        if v <> kv_value i then fail (Printf.sprintf "op %d torn: %S" i v)
        else if !k <> i - 1 then
          fail (Printf.sprintf "op %d durable before op %d (hole)" i !k)
        else incr k
      | None -> ()
    done;
    (match v1 with
     | None -> if !k > 0 then fail "op 1 missing below a durable prefix"
     | Some v ->
       if v = updated_value then begin
         if !k <> ops - 1 then
           fail
             (Printf.sprintf
                "final update durable but prefix stops at op %d" !k)
         else k := ops
       end
       else if v <> kv_value 1 then fail (Printf.sprintf "op 1 torn: %S" v));
    match !err with None -> Ok !k | Some msg -> Error msg
  in
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 17) ~name:"torture-kvfo" variant
    in
    let pool = a.Spp_access.pool in
    let map = Spp_pmemkv.Engine.create ~nbuckets:16 engine a in
    let root = a.Spp_access.root a.Spp_access.oid_size in
    Pool.store_oid pool ~off:root.Oid.off (Spp_pmemkv.Engine.root_oid map);
    Pool.persist pool ~off:root.Oid.off ~len:a.Spp_access.oid_size;
    (* Inline, lossless-or-not single replica: apply happens on the
       committing domain (deterministic — replica-device writes fire no
       primary injector events, so crash-point counting is unchanged),
       and the replica image snapshots the quiesced post-setup state. *)
    let g =
      Spp_shard.Replica.create
        ~cfg:
          { Spp_shard.Replica.replicas = 1; policy = Spp_shard.Replica.Sync;
            threaded = false; send_retries; drop_rate; seed = 0x4f56 }
        ~engine ~shard:0 pool
    in
    let lossless = drop_rate = 0. in
    let op_of i =
      if i < ops then
        Spp_pmemkv.Engine.B_put { key = kv_key i; value = kv_value i }
      else Spp_pmemkv.Engine.B_put { key = kv_key 1; value = updated_value }
    in
    let mutate ~ack =
      let batch lo hi =
        ignore
          (Spp_pmemkv.Engine.run_batch map
             (Array.init (hi - lo + 1) (fun j -> op_of (lo + j))));
        (* sync-policy gate before the acks; immediate in inline mode *)
        Spp_shard.Replica.wait_acks g;
        for _ = lo to hi do ack () done
      in
      batch 1 half;
      batch (half + 1) ops
    in
    let check ~pool:pool' ~acked =
      (* Side A: cold recovery of the primary's crashed image. *)
      let a' = Spp_access.attach (Pool.space pool') pool' in
      let root' = Pool.root_oid pool' in
      let map_root = Pool.load_oid pool' ~off:root'.Oid.off in
      let map' = Spp_pmemkv.Engine.attach engine a' ~root:map_root in
      match scan_prefix (Spp_pmemkv.Engine.get map') with
      | Error msg -> Error ("primary: " ^ msg)
      | Ok k_p ->
        (* Side B: promote the replica — seal, cold-reopen its image. *)
        let p = Spp_shard.Replica.promote g in
        (match
           scan_prefix (Spp_pmemkv.Engine.get p.Spp_shard.Replica.pr_kv)
         with
         | Error msg -> Error ("promoted replica: " ^ msg)
         | Ok k_r ->
           if Spp_pmemkv.Engine.cache p.Spp_shard.Replica.pr_kv <> None then
             Error "promoted replica did not start with a cold cache"
           else if k_r > k_p then
             Error
               (Printf.sprintf
                  "replica leads recovery: replica %d > primary %d ops"
                  k_r k_p)
           else if lossless && k_p - k_r > max half (ops - half) then
             Error
               (Printf.sprintf
                  "lossless lag %d ops exceeds one commit (replica %d, \
                   primary %d)"
                  (k_p - k_r) k_r k_p)
           else if lossless && acked > k_r then
             Error
               (Printf.sprintf
                  "acked op lost on failover: %d acked > %d replicated"
                  acked k_r)
           else Ok ())
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = name; w_make }

let kvfailover_drop ?variant ?ops () =
  kvfailover ?variant ?ops ~drop_rate:0.25 ~send_retries:2
    ~name:"kvfailover-drop" ()

(* Ordered-scan torture: a deterministic interleaving of puts, removes
   and range scans, group-committed as two batches over a pluggable
   engine. The program is simulated up front in DRAM, snapshotting the
   expected sorted contents after every whole-op prefix; the oracle
   re-attaches the recovered image through the engine seam, runs a
   full-range scan, and requires the result to be strictly ascending
   AND byte-equal to the model snapshot of some whole-op prefix at or
   past the acked count. A torn op, a hole, a resurrected removed key,
   or an unordered/duplicated scan all fail the snapshot match. In-run
   scan replies are additionally checked for strict ordering before
   their ops are acked. *)
let kvscan ?(variant = Spp_access.Spp) ?(ops = 12)
    ?(engine = Spp_pmemkv.Engines.cmap) ?(name = "kvscan") () =
  let ops = max 6 ops in
  let module E = Spp_pmemkv.Engine in
  let full_lo = kv_key 0 and full_hi = kv_key 999 in
  let op_of i =
    (* every third op (from 6) removes the key put two ops earlier;
       every fifth is a full-range scan; the rest are fresh puts *)
    if i mod 3 = 0 && i >= 6 then E.B_remove (kv_key (i - 2))
    else if i mod 5 = 0 then E.B_scan { lo = full_lo; hi = full_hi; limit = ops + 1 }
    else E.B_put { key = kv_key i; value = kv_value i }
  in
  (* DRAM model: expected sorted contents after each whole-op prefix *)
  let module M = Map.Make (String) in
  let models = Array.make (ops + 1) [] in
  let () =
    let m = ref M.empty in
    for i = 1 to ops do
      (match op_of i with
       | E.B_put { key; value } -> m := M.add key value !m
       | E.B_remove key -> m := M.remove key !m
       | E.B_get _ | E.B_scan _ -> ());
      models.(i) <- M.bindings !m
    done
  in
  let rec ascending = function
    | (k1, _) :: ((k2, _) :: _ as tl) ->
      String.compare k1 k2 < 0 && ascending tl
    | _ -> true
  in
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 17) ~name:"torture-kvscan" variant
    in
    let pool = a.Spp_access.pool in
    let kv = E.create ~nbuckets:16 engine a in
    let root = a.Spp_access.root a.Spp_access.oid_size in
    Pool.store_oid pool ~off:root.Oid.off (E.root_oid kv);
    Pool.persist pool ~off:root.Oid.off ~len:a.Spp_access.oid_size;
    let mutate ~ack =
      let half = ops / 2 in
      let batch lo hi =
        let replies =
          E.run_batch kv (Array.init (hi - lo + 1) (fun j -> op_of (lo + j)))
        in
        Array.iter
          (function
            | E.R_scan kvs ->
              if not (ascending kvs) then
                failwith "in-batch scan reply not strictly ascending"
            | _ -> ())
          replies;
        for _ = lo to hi do ack () done
      in
      batch 1 half;
      batch (half + 1) ops
    in
    let check ~pool:pool' ~acked =
      let a' = Spp_access.attach (Pool.space pool') pool' in
      let root' = Pool.root_oid pool' in
      let map_root = Pool.load_oid pool' ~off:root'.Oid.off in
      let kv' = E.attach engine a' ~root:map_root in
      let got = E.scan kv' ~lo:full_lo ~hi:full_hi ~limit:(ops + 1) in
      if not (ascending got) then
        Error "recovered scan not strictly ascending"
      else begin
        (* scans and no-op prefixes can share a snapshot, so accept any
           matching prefix — but one at or past acked must exist *)
        let matches k = models.(k) = got in
        let rec exists_in lo hi =
          lo <= hi && (matches lo || exists_in (lo + 1) hi)
        in
        if exists_in acked ops then Ok ()
        else if exists_in 0 (acked - 1) then
          Error
            (Printf.sprintf
               "recovered scan is a pre-ack snapshot (acked %d)" acked)
        else Error "recovered scan matches no whole-op prefix"
      end
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = name; w_make }

let kvscan_btree ?variant ?ops () =
  kvscan ?variant ?ops ~engine:Spp_pmemkv.Engines.btree ~name:"kvscan-btree" ()

(* Mid-migration crash torture: the serve layer's slot-migration
   durability protocol (copy -> durable claim flip -> delete) compressed
   onto one device, which is what the harness tortures. One pool hosts
   two engine instances — the "source" and "target" shards of one
   migrating slot — plus a one-word claim: 0 = the source owns the
   slot, 1 = the target does. Untracked setup preloads the keys into
   the source; the even-indexed ones form the migrating slot, the odd
   ones are bystanders that never move. The tortured program then
   replays a migration: group-committed copy batches of the migrating
   keys into the target, one transactional claim flip, group-committed
   remove batches on the source. The oracle reattaches both maps from
   their parked roots and requires every key served exactly once by the
   owner the durable claim names: bystanders always on the source with
   exact values; claim 0 -> the source still holds every migrating key
   (a partial copy on the target is unreachable garbage, not service);
   claim 1 -> the target holds every migrating key (the flip
   transaction began only after every copy batch committed) and the
   source's leftovers form a whole-op prefix of the deletes — no key
   may ever be in neither map, and post-claim the source may only
   shrink toward empty in delete order. Acks cross-check the claim: an
   ack count past the copy batches forces claim 1, and a fully acked
   run forces a clean source. *)
let kvreshard ?(variant = Spp_access.Spp) ?(ops = 12)
    ?(engine = Spp_pmemkv.Engines.cmap) ?(name = "kvreshard") () =
  let nkeys = max 6 ops in
  let module E = Spp_pmemkv.Engine in
  let migrating = List.filter (fun i -> i mod 2 = 0) (List.init nkeys Fun.id) in
  let bystanders = List.filter (fun i -> i mod 2 = 1) (List.init nkeys Fun.id) in
  let chunk_size = 4 in
  let rec chunks = function
    | [] -> []
    | l ->
      let rec split n acc = function
        | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let (c, rest) = split chunk_size [] l in
      c :: chunks rest
  in
  let copy_batches = chunks migrating in
  let ncopy = List.length copy_batches in
  let total_steps = ncopy + 1 + ncopy in   (* copies, claim, deletes *)
  let w_make () =
    let a =
      Spp_access.create ~pool_size:(1 lsl 18) ~name:"torture-kvreshard"
        variant
    in
    let pool = a.Spp_access.pool in
    let src = E.create ~nbuckets:16 engine a in
    let dst = E.create ~nbuckets:16 engine a in
    let osz = a.Spp_access.oid_size in
    let root = a.Spp_access.root ((2 * osz) + 8) in
    let claim_off = root.Oid.off + (2 * osz) in
    Pool.store_oid pool ~off:root.Oid.off (E.root_oid src);
    Pool.store_oid pool ~off:(root.Oid.off + osz) (E.root_oid dst);
    Pool.store_word pool ~off:claim_off 0;
    Pool.persist pool ~off:root.Oid.off ~len:((2 * osz) + 8);
    (* untracked preload: the pre-migration world *)
    List.iter
      (fun i -> E.put src ~key:(kv_key i) ~value:(kv_value i))
      (migrating @ bystanders);
    let mutate ~ack =
      List.iter
        (fun batch ->
          ignore
            (E.run_batch dst
               (Array.of_list
                  (List.map
                     (fun i ->
                       E.B_put { key = kv_key i; value = kv_value i })
                     batch)));
          ack ())
        copy_batches;
      Pool.with_tx pool (fun () ->
        Pool.tx_add_range pool ~off:claim_off ~len:8;
        Pool.store_word pool ~off:claim_off 1);
      ack ();
      List.iter
        (fun batch ->
          ignore
            (E.run_batch src
               (Array.of_list
                  (List.map (fun i -> E.B_remove (kv_key i)) batch)));
          ack ())
        copy_batches
    in
    let check ~pool:pool' ~acked =
      let a' = Spp_access.attach (Pool.space pool') pool' in
      let root' = Pool.root_oid pool' in
      let src' = E.attach engine a' ~root:(Pool.load_oid pool' ~off:root'.Oid.off) in
      let dst' =
        E.attach engine a' ~root:(Pool.load_oid pool' ~off:(root'.Oid.off + osz))
      in
      let claim = Pool.load_word pool' ~off:(root'.Oid.off + (2 * osz)) in
      let checks = ref [] in
      let add ok msg = checks := (ok, msg) :: !checks in
      add (claim = 0 || claim = 1)
        (Printf.sprintf "claim word is 0 or 1 (got %d)" claim);
      (* acks never run ahead of durability *)
      add (not (acked > ncopy) || claim = 1)
        (Printf.sprintf "acked %d past the copies but claim is %d" acked claim);
      (* bystanders: always served by the source, exact bytes *)
      List.iter
        (fun i ->
          add (E.get src' (kv_key i) = Some (kv_value i))
            (Printf.sprintf "bystander %s intact on source" (kv_key i)))
        bystanders;
      let owner = if claim = 1 then dst' else src' in
      let owner_name = if claim = 1 then "target" else "source" in
      (* exactly-once: whoever the claim names serves every migrating
         key — never neither *)
      List.iter
        (fun i ->
          add (E.get owner (kv_key i) = Some (kv_value i))
            (Printf.sprintf "migrating %s served by %s" (kv_key i) owner_name))
        migrating;
      if claim = 1 then begin
        (* the source may only shrink in delete order, whole ops at a
           time: present keys must be exactly a suffix of the program *)
        let present =
          List.map (fun i -> E.get src' (kv_key i) <> None) migrating
        in
        let rec is_prefix_of_deletes seen_present = function
          | [] -> true
          | p :: tl ->
            if p then is_prefix_of_deletes true tl
            else (not seen_present) && is_prefix_of_deletes false tl
        in
        add (is_prefix_of_deletes false present)
          "source leftovers form a whole-op prefix of the deletes";
        add (not (acked >= total_steps)
             || List.for_all (fun p -> not p) present)
          "fully acked migration left keys on the source"
      end;
      check_all (List.rev !checks)
    in
    { Torture.access = a; mutate; check }
  in
  { Torture.w_name = name; w_make }

let kvreshard_btree ?variant ?ops () =
  kvreshard ?variant ?ops ~engine:Spp_pmemkv.Engines.btree
    ~name:"kvreshard-btree" ()

let all ?variant ?ops ?engine () =
  [ kvstore ?variant ?ops (); pmemlog ?variant ?ops ();
    counter ?variant ?ops (); kvbatch ?variant ?ops ();
    kvfailover ?variant ?ops ?engine (); kvfailover_drop ?variant ?ops ();
    kvscan ?variant ?ops ?engine (); kvscan_btree ?variant ?ops ();
    kvreshard ?variant ?ops ?engine (); kvreshard_btree ?variant ?ops () ]

let by_name ?variant ?ops ?engine = function
  | "kvstore" -> Some (kvstore ?variant ?ops ())
  | "pmemlog" -> Some (pmemlog ?variant ?ops ())
  | "counter" -> Some (counter ?variant ?ops ())
  | "kvbatch" -> Some (kvbatch ?variant ?ops ())
  | "kvfailover" -> Some (kvfailover ?variant ?ops ?engine ())
  | "kvfailover-drop" -> Some (kvfailover_drop ?variant ?ops ())
  | "kvscan" -> Some (kvscan ?variant ?ops ?engine ())
  | "kvscan-btree" -> Some (kvscan_btree ?variant ?ops ())
  | "kvreshard" -> Some (kvreshard ?variant ?ops ?engine ())
  | "kvreshard-btree" -> Some (kvreshard_btree ?variant ?ops ())
  | _ -> None
