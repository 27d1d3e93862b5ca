(* Differential and crash-injection fuzzing across the whole stack:

   - the same random operation stream must produce identical results on
     every variant (instrumentation must never change semantics);
   - crashes injected between operations must never lose a committed
     update or resurrect a removed one, on any index and on the KV
     engine (each operation is one transaction);
   - SPP protection must hold at every intermediate state: probing one
     byte past a randomly chosen live object always faults. *)

open Spp_pmdk

let check_int = Alcotest.(check int)

let mk ?(pool_size = 1 lsl 24) variant =
  Spp_access.create ~pool_size ~name:(Spp_access.variant_name variant) variant

(* random op streams *)

type op =
  | Insert of int * int
  | Remove of int
  | Get of int

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 20 120)
      (int_range 0 299 >>= fun key ->
       frequency
         [
           (4, map (fun v -> Insert (key, v)) (int_range 0 100000));
           (2, return (Remove key));
           (3, return (Get key));
         ]))

let arb_ops = QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen_ops

let run_stream ix ops =
  List.map
    (fun op ->
      match op with
      | Insert (key, value) ->
        ix.Spp_indices.Indices.insert ~key ~value;
        None
      | Remove key -> ix.Spp_indices.Indices.remove key
      | Get key -> ix.Spp_indices.Indices.get key)
    ops

let prop_indices_differential index_name =
  QCheck.Test.make
    ~name:(index_name ^ ": identical results on all variants") ~count:25
    arb_ops
    (fun ops ->
      let results =
        List.map
          (fun v -> run_stream (Spp_indices.Indices.create index_name (mk v)) ops)
          Spp_access.all_variants
      in
      match results with
      | ref :: rest -> List.for_all (fun r -> r = ref) rest
      | [] -> true)

(* crash-injection fuzz: crash after random prefixes of the op stream;
   committed operations must all be visible after recovery *)

let prop_crash_fuzz index_name =
  QCheck.Test.make
    ~name:(index_name ^ ": crashes between ops lose nothing") ~count:15
    QCheck.(pair arb_ops (list_of_size (Gen.int_range 1 4) (int_bound 100)))
    (fun (ops, crash_points) ->
      let a = mk Spp_access.Spp in
      let ix = Spp_indices.Indices.create index_name a in
      Spp_sim.Memdev.set_tracking (Pool.dev a.Spp_access.pool) true;
      let model = Hashtbl.create 64 in
      let crash_set =
        List.map (fun c -> c mod max 1 (List.length ops)) crash_points
      in
      List.iteri
        (fun i op ->
          (match op with
           | Insert (key, value) ->
             ix.Spp_indices.Indices.insert ~key ~value;
             Hashtbl.replace model key value
           | Remove key ->
             ignore (ix.Spp_indices.Indices.remove key);
             Hashtbl.remove model key
           | Get key -> ignore (ix.Spp_indices.Indices.get key));
          if List.mem i crash_set then begin
            let (_ : Pool.recovery_report) =
              Pool.crash_and_recover a.Spp_access.pool
            in
            ()
          end)
        ops;
      let (_ : Pool.recovery_report) =
        Pool.crash_and_recover a.Spp_access.pool
      in
      Hashtbl.fold
        (fun k v acc -> acc && ix.Spp_indices.Indices.get k = Some v)
        model true)

let prop_kv_crash_fuzz =
  QCheck.Test.make ~name:"cmap: crashes between ops lose nothing" ~count:15
    QCheck.(pair
              (list_of_size (Gen.int_range 10 60)
                 (pair (int_bound 50) (option (int_bound 1000))))
              (int_bound 30))
    (fun (ops, crash_at) ->
      let a = mk Spp_access.Spp in
      let kv = Spp_pmemkv.Engine.create ~nbuckets:64 Spp_pmemkv.Engines.cmap a in
      Spp_sim.Memdev.set_tracking (Pool.dev a.Spp_access.pool) true;
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (k, v) ->
          let key = "k" ^ string_of_int k in
          (match v with
           | Some v ->
             Spp_pmemkv.Engine.put kv ~key ~value:(string_of_int v);
             Hashtbl.replace model key (string_of_int v)
           | None ->
             ignore (Spp_pmemkv.Engine.remove kv key);
             Hashtbl.remove model key);
          if i = crash_at then
            ignore (Pool.crash_and_recover a.Spp_access.pool))
        ops;
      ignore (Pool.crash_and_recover a.Spp_access.pool);
      Hashtbl.fold
        (fun k v acc -> acc && Spp_pmemkv.Engine.get kv k = Some v)
        model true
      && Spp_pmemkv.Engine.count_all kv = Hashtbl.length model)

(* protection invariant at arbitrary states: a one-past-the-end probe of
   a live object always faults under SPP *)

let prop_spp_always_protects =
  QCheck.Test.make
    ~name:"SPP: one-past-end probe faults at any heap state" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 4096))
    (fun sizes ->
      let a = mk Spp_access.Spp in
      let oids = List.map (fun size -> a.Spp_access.palloc size) sizes in
      List.for_all
        (fun (oid : Oid.t) ->
          let p = a.Spp_access.direct oid in
          match
            Spp_access.run_guarded (fun () ->
              a.Spp_access.store_u8 (a.Spp_access.gep p oid.Oid.size) 1)
          with
          | Spp_access.Prevented _ -> true
          | Ok_completed -> false)
        oids)

(* tag-width sweep: the whole mechanism must work at any configured
   width, trading maximum object size for pool span (paper §IV-A) *)

let test_tag_width_sweep () =
  List.iter
    (fun tag_bits ->
      let cfg = Spp_core.Config.make ~tag_bits in
      let pool_size = min (1 lsl 20) (Spp_core.Config.max_pool_span cfg / 2) in
      let a =
        Spp_access.create ~tag_bits ~pool_size
          ~name:(Printf.sprintf "tag%d" tag_bits) Spp_access.Spp
      in
      let size = min 4096 (Spp_core.Config.max_object_size cfg) in
      let oid = a.Spp_access.palloc size in
      let p = a.Spp_access.direct oid in
      a.Spp_access.store_word p 1;
      check_int
        (Printf.sprintf "tag=%d rw works" tag_bits)
        1 (a.Spp_access.load_word p);
      match
        Spp_access.run_guarded (fun () ->
          a.Spp_access.store_u8 (a.Spp_access.gep p size) 1)
      with
      | Spp_access.Prevented _ -> ()
      | Ok_completed ->
        Alcotest.failf "tag=%d must still catch overflow" tag_bits)
    [ 13; 20; 26; 31; 40 ]

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "spp_differential"
    [
      ( "differential",
        List.map (fun ix -> qt (prop_indices_differential ix))
          [ "ctree"; "rbtree"; "hashmap_tx"; "btree" ] );
      ( "crash-fuzz",
        List.map (fun ix -> qt (prop_crash_fuzz ix))
          [ "ctree"; "rbtree"; "hashmap_tx"; "btree" ]
        @ [ qt prop_kv_crash_fuzz ] );
      ( "protection",
        [ qt prop_spp_always_protects;
          Alcotest.test_case "tag width sweep" `Quick test_tag_width_sweep ] );
    ]
