(* A persistent key-value store session under SPP: the pmemkv cmap engine
   runs unchanged on the SPP-adapted PMDK, data survives a simulated
   power failure, and the tag is rebuilt from the durable size field.

   Run with: dune exec examples/kvstore_demo.exe *)

open Spp_pmdk

let () =
  let a = Spp_access.create ~pool_size:(1 lsl 22) ~name:"kv" Spp_access.Spp in
  let kv = Spp_pmemkv.Engine.create ~nbuckets:256 Spp_pmemkv.Engines.cmap a in

  (* ordinary session *)
  Spp_pmemkv.Engine.put kv ~key:"user:1" ~value:"ada";
  Spp_pmemkv.Engine.put kv ~key:"user:2" ~value:"grace";
  Spp_pmemkv.Engine.put kv ~key:"config" ~value:"{\"mode\": \"spp\"}";
  Printf.printf "count after 3 puts: %d\n" (Spp_pmemkv.Engine.count_all kv);

  (* an overwrite replaces the entry out of place, at any size *)
  Spp_pmemkv.Engine.put kv ~key:"user:2" ~value:"grace hopper";
  Printf.printf "user:2 = %s\n"
    (Option.value ~default:"?" (Spp_pmemkv.Engine.get kv "user:2"));

  (* power failure in the middle of a burst of writes: committed writes
     survive; an interrupted commit is lost whole *)
  Spp_sim.Memdev.set_tracking (Pool.dev a.Spp_access.pool) true;
  Spp_pmemkv.Engine.put kv ~key:"committed" ~value:"survives";
  Printf.printf "\n-- simulated power failure --\n";
  let report = Pool.crash_and_recover a.Spp_access.pool in
  Printf.printf "recovery: redo=%b tx=%s\n" report.Pool.redo_replayed
    (match report.Pool.tx_outcome with
     | `Clean -> "clean"
     | `Rolled_back -> "rolled back"
     | `Completed_commit -> "completed commit");

  List.iter
    (fun k ->
      Printf.printf "%-10s -> %s\n" k
        (Option.value ~default:"(missing)" (Spp_pmemkv.Engine.get kv k)))
    [ "user:1"; "user:2"; "config"; "committed" ];

  (* the store is still fully protected: a buggy read past a value
     faults instead of leaking the neighbouring entry *)
  Printf.printf "\nbuggy 4096-byte read of a short value: %s\n"
    (match
       Spp_access.run_guarded (fun () ->
         (* simulate an application bug that reads far past the entry *)
         let oid = a.Spp_access.palloc 16 in
         let p = a.Spp_access.direct oid in
         ignore (a.Spp_access.read_bytes p 4096))
     with
     | Spp_access.Prevented r -> "prevented (" ^ r ^ ")"
     | Spp_access.Ok_completed -> "!!! leaked")
